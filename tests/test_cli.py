import copy
import csv
import gc
import hashlib
import importlib
import json
import math
import os
import pkgutil
import re
import signal
import subprocess
import sys
import threading
import textwrap
import time
import typing
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bellmix.cli import main
from bellmix.counting import (
    AcquisitionConfig,
    derive_seed,
    read_counts_csv,
    simulate_counts,
    visibility_scan,
    write_counts_csv,
)
from bellmix.linalg import (
    DensityMatrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    read_state_json,
)
from bellmix.optics import (
    CALIBRATION_IDLER,
    analyzer_ports,
    projector_set_from_json_dict,
    projector_set_to_json_dict,
    standard_projector_set,
)
from bellmix.states import NoiseParams, SourceConfig, bell_state, generate, mix_duty_cycle
from bellmix.errors import DataParse, InvalidConfig, OutOfRange
import bellmix.errors
from bellmix import sweep
from bellmix.sweep import SweepSpec, run_sweep
from bellmix.tomography import bootstrap_errors, mle_reconstruct
from helpers import broken_setting_zero, with_old_labels


def write_json(path, data):
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")


def read_matrix(path):
    return matrix_from_json_dict(json.loads(path.read_text(encoding="utf-8")))


def test_errors_are_four_kinds_under_two_exit_codes(monkeypatch, capsys):
    errors = bellmix.errors

    def classes(module):
        return {name for name, value in vars(module).items() if isinstance(value, type)
                and issubclass(value, BaseException) and value.__module__ == module.__name__}

    kinds = {errors.OutOfRange: 2, errors.InvalidConfig: 2, errors.DataParse: 3,
             errors.InvalidState: 3}
    assert classes(errors) == {"BellmixError", "ConfigError", "DataError",
                               *(kind.__name__ for kind in kinds)}
    for info in pkgutil.iter_modules(bellmix.__path__):
        module = importlib.import_module(f"bellmix.{info.name}")
        assert module is errors or not classes(module), f"{module.__name__} defines an error"
    for kind, code in kinds.items():
        assert issubclass(kind, errors.ConfigError) != issubclass(kind, errors.DataError)

        def fail(args, kind=kind):
            raise kind("one line")

        monkeypatch.setattr("bellmix.cli._cmd_generate", fail)
        assert main(["generate"]) == code
        assert capsys.readouterr().err == "error: one line\n"


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
    # A setting is placed by its index, not by its position in the file; the basis and
    # waveplate labels of older files are ignored, right or wrong.
    document = json.loads(projectors.read_text(encoding="utf-8"))
    variants = {"reversed": {"settings": document["settings"][::-1]},
                "labelled": with_old_labels(document),
                "mislabelled": with_old_labels(document, [("RL", "RL")] * 9)}
    for name, variant in variants.items():
        write_json(tmp_path / f"{name}.json", variant)
    recons = []
    for path in (projectors, *(tmp_path / f"{name}.json" for name in variants)):
        out = tmp_path / f"recon_{path.stem}.json"
        argv = ["reconstruct", str(counts), "--projectors", str(path), "--alpha", "0.25"]
        assert main(argv + ["--out", str(out)]) == 0
        recons.append(out.read_bytes())
    assert recons == [recons[0]] * 4
    assert json.loads(recons[0])["metrics"]["fidelity_to_target"] >= 0.999


def test_exported_projector_set_is_pinned(tmp_path):
    # Each setting is its index and its four projectors; a changed byte is a format change.
    projectors = tmp_path / "projectors.json"
    argv = ["simulate", "--pairs", "1e3", "--seed", "1", "--out", str(tmp_path / "counts.csv"),
            "--projectors-out", str(projectors)]
    assert main(argv) == 0
    digest = hashlib.sha256(projectors.read_bytes()).hexdigest()
    assert digest == "8572eccadcbd988812148fda76b427dc1d9010e9451b873f0dfb332aba210aad"


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


def test_reconstruct_exits_4_when_a_resample_hits_the_iteration_cap(tmp_path):
    # The estimate converges in 87 iterations; most of its resamples need more.
    counts, recon = tmp_path / "counts.csv", tmp_path / "recon.json"
    assert main(["simulate", "--pairs", "1e3", "--seed", "31", "--out", str(counts)]) == 0
    capped = ["reconstruct", str(counts), "--max-iterations", "87", "--out", str(recon)]
    assert main(capped) == 0
    assert main([*capped, "--resamples", "20", "--seed", "5"]) == 4
    result = json.loads(recon.read_text(encoding="utf-8"))
    assert result["iterations"] == 87 and result["converged"] is False
    assert result["metric_errors"]["fidelity"] > 0.0


def test_reconstruct_with_bootstrap_error_bars(tmp_path):
    counts = tmp_path / "counts.csv"
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


def test_a_counts_file_is_csv_whatever_its_suffix(tmp_path, capsys):
    counts, recon = tmp_path / "counts.json", tmp_path / "recon.json"
    assert main(["simulate", "--pairs", "1e4", "--seed", "5", "--out", str(counts)]) == 0
    assert counts.read_text(encoding="utf-8").startswith("setting_index,outcome_label,count\n")
    assert main(["reconstruct", str(counts), "--alpha", "0", "--out", str(recon)]) == 0
    # The counts JSON that earlier versions wrote is a malformed counts CSV.
    old = tmp_path / "old.json"
    write_json(old, {"records": [{"setting_index": setting, "outcome_counts": [250] * 4}
                                 for setting in range(9)]})
    capsys.readouterr()
    assert main(["reconstruct", str(old)]) == 3
    assert capsys.readouterr().err == (
        "error: counts CSV must start with header 'setting_index,outcome_label,count'\n")


# A lone fit's fields that the benchmark's cli_reconstruct gate reads, for 1e5-pair counts at
# seed 7000 (its golden entries "alpha=0,seed=7000" and "alpha=0.25,seed=7000"): log-likelihood,
# iterations, converged and the four metrics. At alpha = 0 many of the counts are zero.
_PINNED_FITS = {
    "0": (-1038897.8177683121, 87, True,
          {"purity": 0.9999999968681659, "tangle": 0.999997452853709,
           "visibility": 0.9999930754282031, "fidelity_to_target": 0.9999984281420646}),
    "0.25": (-1151090.6875741647, 155, True,
             {"purity": 0.6248681241523197, "tangle": 0.2497365979233842,
              "visibility": 0.4989071517505234, "fidelity_to_target": 0.9999957024976862}),
}


@pytest.mark.parametrize("alpha", sorted(_PINNED_FITS))
def test_reconstruct_pins_a_lone_fit(tmp_path, alpha):
    counts, recon = tmp_path / "counts.csv", tmp_path / "recon.json"
    rho = generate(SourceConfig(alpha=float(alpha)))
    write_counts_csv(counts, simulate_counts(rho, standard_projector_set(),
                                             AcquisitionConfig(1e5, seed=7000)))
    assert main(["reconstruct", str(counts), "--alpha", alpha, "--out", str(recon)]) == 0
    result = json.loads(recon.read_text(encoding="utf-8"))
    log_likelihood, iterations, converged, metrics = _PINNED_FITS[alpha]
    assert result["log_likelihood"] == log_likelihood
    assert result["iterations"] == iterations and result["converged"] is converged
    assert {name: result["metrics"][name] for name in metrics} == metrics


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
    spec = _sweep_spec(tmp_path, tmp_path / "out")
    for argv in (["reconstruct", str(plain), "--dilution", "1"],  # every fit starts at eps = 1
                 # A sweep takes every number from its spec.
                 *(["sweep", "--spec", str(spec), flag, value]
                   for flag, value in (("--seed", "3"), ("--pairs", "1e3"), ("--resamples", "0")))):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_flag_is_never_read_from_its_prefix(tmp_path, capsys):
    # --projectors would be read as simulate's --projectors-out, and overwrite the file it names.
    mine, counts, uniform = tmp_path / "mine.json", tmp_path / "c.csv", tmp_path / "uniform.csv"
    mine.write_text('{"settings": []}\n', encoding="utf-8")
    write_counts_csv(uniform, np.full((9, 4), 250))
    for argv, flag in (
            (["simulate", "--pairs", "1e3", "--projectors", str(mine), "--out", str(counts)],
             "--projectors"),
            (["reconstruct", str(uniform), "--max-it", "0"], "--max-it")):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert mine.read_text(encoding="utf-8") == '{"settings": []}\n'
    assert not counts.exists()


@pytest.mark.parametrize("flags", [["--seed", "-4"], ["--seed", "-1", "--resamples", "0"]],
                         ids=["negative_seed", "negative_seed_without_bootstrap"])
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


@pytest.mark.forks
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
@pytest.mark.forks
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


@pytest.mark.forks
@pytest.mark.parametrize("parallel", ["0", "2"], ids=["serial", "pooled"])
def test_serial_and_pooled_sweeps_draw_counts_at_each_point_seed(tmp_path, parallel):
    # Point i of a sweep with master seed s draws its counts at derive_seed(s, 303, i).
    spec = tmp_path / "spec.json"
    write_json(spec, {"alphas": [0.1, 0.6, 0.9], "resamples": 0,
                      "acquisition": {"pairs_per_setting": 1e3, "seed": 41}})
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "out"),
                 "--parallel", parallel]) == 0
    for index, alpha in enumerate((0.1, 0.6, 0.9)):
        acq = AcquisitionConfig(pairs_per_setting=1e3, seed=derive_seed(41, 303, index))
        expected = tmp_path / f"expected_{index}.csv"
        write_counts_csv(expected, simulate_counts(generate(SourceConfig(alpha=alpha)),
                                                   standard_projector_set(), acq))
        written = tmp_path / "out" / f"alpha_{alpha:g}" / "counts.csv"
        assert written.read_bytes() == expected.read_bytes()


def test_reconstruct_takes_a_cap_above_int64(tmp_path):
    counts = tmp_path / "counts.csv"
    assert main(["simulate", "--pairs", "1e3", "--seed", "8", "--out", str(counts)]) == 0
    for name, cap in (("default", []), ("huge", ["--max-iterations", str(10**20)])):
        assert main(["reconstruct", str(counts), "--resamples", "3", *cap,
                     "--out", str(tmp_path / f"{name}.json")]) == 0
    assert (tmp_path / "huge.json").read_bytes() == (tmp_path / "default.json").read_bytes()


def _same(a, b):
    """a and b hold the same values.

    Arrays match bit for bit and in their write flag, dataclasses field by field.
    """
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                and a.flags.writeable == b.flags.writeable)
    if is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    return type(a) is type(b) and a == b


@pytest.mark.forks
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
        assert not (mine.result.rho_hat.matrix.flags.writeable
                    or mine.result.target.matrix.flags.writeable)
    # A point's state and counts go only to its files.
    assert {"state", "counts"}.isdisjoint(f.name for f in fields(sweep.SweepPoint))


def test_array_holding_records_compare_by_identity(tmp_path):
    pset = standard_projector_set()
    counts = simulate_counts(mix_duty_cycle(0.25), pset, AcquisitionConfig(1e3, seed=3))
    spec = SweepSpec(alphas=(0.0, 0.5), outputs=str(tmp_path / "out"))
    pairs = [
        (mix_duty_cycle(0.25), DensityMatrix(mix_duty_cycle(0.25).matrix)),
        (pset, projector_set_from_json_dict(projector_set_to_json_dict(pset))),
        (mle_reconstruct(counts, pset), mle_reconstruct(counts, pset)),
        (spec.points[0], replace(spec).points[0]),
    ]
    for value, twin in pairs:
        assert (value == value) is True and (value != value) is False
        assert (value == twin) is False and (value != twin) is True
    assert spec.points != replace(spec).points


def test_a_spec_builds_its_frozen_points_once(tmp_path, monkeypatch):
    spec = SweepSpec(alphas=(0.0, 1.0), resamples=0, outputs=str(tmp_path / "out"),
                     acquisition=AcquisitionConfig(pairs_per_setting=1e3))
    assert spec.points is spec.points
    with pytest.raises(FrozenInstanceError):
        spec.points[0].result = None
    other = replace(spec, alphas=(0.5,))
    assert [point.config.alpha for point in other.points] == [0.5]
    built = []
    monkeypatch.setattr(sweep, "SourceConfig", lambda **kw: built.append(kw) or SourceConfig(**kw))
    points = run_sweep(spec)
    assert built == []  # run_sweep builds no point
    assert all(mine.config is theirs.config and theirs.result is None and mine.result.converged
               for mine, theirs in zip(points, spec.points))
    replace(spec, outputs=str(tmp_path / "again"))
    assert [kw["alpha"] for kw in built] == [0.0, 1.0]  # a new spec builds its own


def test_a_batch_error_that_no_point_raises_alone_is_raised_unchanged(tmp_path, monkeypatch):
    # The rerun looks for the first point that fails alone; finding none, it raises the
    # batch's own error, with no point named.
    error, real_fit = DataParse("the batch failed"), sweep._fit

    def fit(spec, points, *resamples):
        if len(points) > 1:
            raise error
        return real_fit(spec, points, *resamples)

    monkeypatch.setattr(sweep, "_fit", fit)
    spec = SweepSpec(alphas=(0.0, 1.0), resamples=0, outputs=str(tmp_path / "out"),
                     acquisition=AcquisitionConfig(pairs_per_setting=1e3))
    with pytest.raises(DataParse) as raised:
        run_sweep(spec)
    assert raised.value is error and str(raised.value) == "the batch failed"
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.forks
@pytest.mark.parametrize("parallel", [0, 2])
@pytest.mark.parametrize("pairs, seed, first", [
    (1e-9, 1, "alpha=0 (pump_vpr)"),  # no point has counts
    # Point 0 has counts but a resample without any; point 1 has none. The
    # first point to fail is named, although its bootstrap stage runs last,
    # and its message says that a resample failed.
    (0.1, 7, "alpha=0 (pump_vpr)"),
    (0.1, 11, "alpha=0.5 (pump_vpr)"),  # point 0 and its resamples all have counts
])
def test_sweep_error_names_the_first_failing_point(tmp_path, capsys, parallel, pairs, seed, first):
    spec = tmp_path / "spec.json"
    write_json(spec, {"alphas": [0.0, 0.5, 1.0, 0.25], "resamples": 3,
                      "acquisition": {"pairs_per_setting": pairs, "seed": seed},
                      "outputs": str(tmp_path / "out")})
    cause = "bootstrap resample: " if seed == 7 else ""
    message = f"sweep point {first}: {cause}all counts are zero"
    assert main(["sweep", "--spec", str(spec), "--parallel", str(parallel)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {message}")
    with pytest.raises(DataParse, match=f"^{re.escape(message)}"):
        run_sweep(SweepSpec.from_file(spec), parallel=parallel)


def test_a_sweep_point_whose_resample_has_no_counts_names_the_bootstrap(tmp_path, capsys):
    # The point draws 3 counts in all; its resamples 3 and 4 draw none.
    spec = tmp_path / "spec.json"
    write_json(spec, {"alphas": [0.5], "acquisition": {"pairs_per_setting": 0.2, "seed": 2},
                      "resamples": 5, "outputs": str(tmp_path / "out")})
    assert main(["sweep", "--spec", str(spec)]) == 3
    assert capsys.readouterr().err == ("error: sweep point alpha=0.5 (pump_vpr): bootstrap "
                                       "resample: all counts are zero; nothing to reconstruct\n")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise(exc):
    raise exc


@pytest.mark.forks
@pytest.mark.parametrize("misbehave, status", [
    # Only the child misbehaves, so the calling process finishes the share again without error.
    (lambda: _raise(RuntimeError("share blew up")), 1),
    (lambda: _raise(ValueError(threading.Lock())), 1),  # an exception that cannot be pickled
    (lambda: os._exit(3), 3),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -9),  # as the OOM killer would
], ids=["raises", "raises-unpicklable", "exits", "killed"])
def test_a_failing_share_child_fails_the_pooled_sweep(tmp_path, monkeypatch, capsys, misbehave,
                                                     status):
    parent, real_finish = os.getpid(), sweep._finish

    def finish(*args):
        if os.getpid() != parent:
            misbehave()
        return real_finish(*args)

    monkeypatch.setattr(sweep, "_finish", finish)
    spec = _sweep_spec(tmp_path, tmp_path / "out")
    message = f"sweep share 1 failed in its child alone; exit status {status}"
    assert main(["sweep", "--spec", str(spec), "--parallel", "2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
        run_sweep(SweepSpec.from_file(spec), parallel=2)
    _assert_no_child_left()
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.forks
def test_a_child_share_failing_its_bootstrap_names_the_serial_point(tmp_path, capsys):
    # Point 0 (share 0) and its resamples all draw counts; point 1 draws some and a resample of
    # it none, so only the child's share fails. The calling process finishes that share again.
    spec = tmp_path / "spec.json"
    write_json(spec, {"alphas": [0.5, 1.0], "resamples": 5, "outputs": str(tmp_path / "out"),
                      "acquisition": {"pairs_per_setting": 0.2, "seed": 1}})
    message = "sweep point alpha=1 (pump_vpr): bootstrap resample: all counts are zero"
    for parallel in ("0", "2"):
        assert main(["sweep", "--spec", str(spec), "--parallel", parallel]) == 3
        assert capsys.readouterr().err.startswith(f"error: {message}")
        _assert_no_child_left()
    with pytest.raises(DataParse, match=f"^{re.escape(message)}"):
        run_sweep(SweepSpec.from_file(spec), parallel=2)
    _assert_no_child_left()
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.forks
def test_an_unwritable_point_file_in_a_child_share_fails_as_a_serial_run(tmp_path, capsys):
    blocked = tmp_path / "out" / "alpha_0.5" / "recon.json"  # point 1, in share 1 of 2
    blocked.mkdir(parents=True)
    spec = tmp_path / "spec.json"
    write_json(spec, {"alphas": [0.0, 0.5, 1.0], "acquisition": {"pairs_per_setting": 1e3},
                      "outputs": str(tmp_path / "out"), "resamples": 3})
    errors = []
    for parallel in ("0", "2"):
        assert main(["sweep", "--spec", str(spec), "--parallel", parallel]) == 2
        errors.append(capsys.readouterr().err)
        _assert_no_child_left()
    assert errors[0] == errors[1] and errors[0].startswith(f"error: cannot write {blocked}")
    assert errors[0].count("\n") == 1
    with pytest.raises(InvalidConfig, match=f"^cannot write {re.escape(str(blocked))}:") as raised:
        run_sweep(SweepSpec.from_file(spec), parallel=2)
    assert isinstance(raised.value.__cause__, OSError)
    _assert_no_child_left()


@pytest.mark.forks
def test_a_pooled_sweep_leaves_no_child(tmp_path):
    spec = SweepSpec.from_file(_sweep_spec(tmp_path, tmp_path / "out"))
    run_sweep(spec, parallel=3)
    _assert_no_child_left()
    with pytest.raises(DataParse, match="all counts are zero"):  # no point has counts
        run_sweep(replace(spec, acquisition=AcquisitionConfig(pairs_per_setting=1e-9)), parallel=3)
    _assert_no_child_left()


@pytest.mark.forks
def test_an_interrupted_pooled_sweep_kills_its_children(tmp_path, monkeypatch):
    parent, real_finish = os.getpid(), sweep._finish

    def finish(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return real_finish(*args)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(sweep, "_finish", finish)
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


@pytest.mark.forks
@pytest.mark.parametrize("caller, child_sleep, raised, message", [
    # Point 0 (share 0) draws 2 counts and a resample of it none; point 1 draws 4 and its
    # resamples all draw some, so only share 0's bootstrap fails. The rerun names its point.
    (None, 1, DataParse, r"^sweep point alpha=0\.5 \(pump_vpr\): bootstrap resample: all counts "),
    (lambda: _raise(KeyboardInterrupt()), 60, KeyboardInterrupt, None),
], ids=["data-error", "interrupted"])
def test_a_failing_caller_share_lets_its_child_finish_unless_interrupted(
        tmp_path, monkeypatch, caller, child_sleep, raised, message):
    parent, real_finish = os.getpid(), sweep._finish

    def finish(*args):
        if os.getpid() != parent:
            time.sleep(child_sleep)
        elif caller:
            caller()
        return real_finish(*args)

    monkeypatch.setattr(sweep, "_finish", finish)
    table = tmp_path / "out" / "sweep.csv"
    table.parent.mkdir()
    table.write_text("an earlier run's table\n", encoding="utf-8")
    spec = SweepSpec(alphas=(0.5, 1.0), resamples=5, outputs=str(tmp_path / "out"),
                     acquisition=AcquisitionConfig(pairs_per_setting=0.2, seed=10))
    start = time.monotonic()
    with pytest.raises(raised, match=message):
        run_sweep(spec, parallel=2)
    assert time.monotonic() - start < 30  # an interrupt kills the sleeping child
    _assert_no_child_left()
    assert not table.exists()
    point = tmp_path / "out" / "alpha_1"
    if raised is KeyboardInterrupt:
        assert list(point.iterdir()) == []
    else:  # an error in the caller's share leaves the child to finish its point's files whole
        read_state_json(point / "state.json")
        assert read_counts_csv(point / "counts.csv").sum() == 4
        assert set(json.loads((point / "recon.json").read_text())["metric_errors"]) == {
            "purity", "tangle", "visibility", "fidelity"}


def _timed_out(signum, frame):
    raise TimeoutError("the pooled sweep did not finish")


@pytest.mark.forks
def test_a_pooled_sweep_started_after_threaded_blas_completes(tmp_path):
    # Matrices this large start OpenBLAS's worker threads, unless OPENBLAS_NUM_THREADS=1, in the
    # process that then fits the grid and forks its child.
    matrix = np.cos(np.arange(600 * 600.0)).reshape(600, 600)
    np.linalg.eigh(matrix @ matrix.T)
    spec = SweepSpec.from_file(_sweep_spec(tmp_path, tmp_path / "pooled"))
    previous = signal.signal(signal.SIGALRM, _timed_out)
    try:
        signal.alarm(60)
        run_sweep(spec, parallel=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _assert_no_child_left()
    run_sweep(replace(spec, outputs=str(tmp_path / "serial")))
    assert _tree_bytes(tmp_path / "pooled") == _tree_bytes(tmp_path / "serial")


def test_one_share_writes_the_serial_tree_without_forking(tmp_path):
    # Unmarked, so the fork guard fails the test if either sweep forks.
    grid = SweepSpec.from_file(_sweep_spec(tmp_path, tmp_path / "grid"))
    single = replace(grid, alphas=(0.25,), include_completely_mixed=False,
                     outputs=str(tmp_path / "single"))
    for spec, parallel in ((grid, 1), (single, 4)):
        run_sweep(spec)
        run_sweep(replace(spec, outputs=spec.outputs + "_pooled"), parallel=parallel)
        assert _tree_bytes(spec.outputs + "_pooled") == _tree_bytes(spec.outputs)


@pytest.mark.forks
def test_a_share_child_inherits_the_projector_set_and_numpy_random(tmp_path):
    # A fresh process has neither; the caller's fit builds both before it forks.
    code = textwrap.dedent("""\
        import os, sys
        from bellmix import sweep
        from bellmix.optics import standard_projector_set

        def loaded():
            print(standard_projector_set.cache_info().currsize, "numpy.random" in sys.modules,
                  flush=True)

        parent, real_finish = os.getpid(), sweep._finish

        def finish(*args):
            if os.getpid() != parent:  # before the child's share runs
                loaded()
            return real_finish(*args)

        loaded()
        sweep._finish = finish
        sweep.run_sweep(sweep.SweepSpec.from_file(sys.argv[1]), parallel=2)
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    spec = _sweep_spec(tmp_path, tmp_path / "out")
    child = subprocess.run([sys.executable, "-c", code, str(spec)], env=env, capture_output=True,
                           text=True, check=True)
    assert child.stdout == "0 False\n1 True\n"


# The sweep spec printed in README.md, but for its outputs.
_README_SPEC = {
    "alphas": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
    "acquisition": {"pairs_per_setting": 1e6, "accidental_rate": 0.0, "seed": 2026},
    "noise": {"dephasing": 0.0, "depolarizing": 0.0},
    "include_completely_mixed": True, "resamples": 50,
}


def test_readme_sweep_csv_is_pinned(tmp_path):
    # Serial; the digest is that of the benchmark's golden sweep.csv for master seed 2026.
    spec = tmp_path / "spec.json"
    write_json(spec, {**_README_SPEC, "outputs": str(tmp_path / "out")})
    assert main(["sweep", "--spec", str(spec)]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "sweep.csv").read_bytes()).hexdigest()
    assert digest == "f0ca74f49fc056f1946c0f98f61e3734813cd0a192a359922c1baca604babbb0"


def test_readme_json_examples_read():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    config, spec = map(json.loads, re.findall(r"```json\n(.*?)```", readme, re.DOTALL))
    assert SourceConfig.from_json_dict(config) == SourceConfig(alpha=0.25)
    assert SweepSpec.from_json_dict(spec) == SweepSpec.from_json_dict(
        {**_README_SPEC, "outputs": "sweep_out"})
    assert {key: value for key, value in spec.items() if key != "outputs"} == _README_SPEC


def test_readme_command_lines_name_only_options_of_their_subcommand(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.DOTALL)[1].splitlines()
    assert len(lines) == 6
    option = re.compile(r"(?<![\w-])--[\w-]+")  # a whole option: --out is not --projectors-out
    for line in lines:
        with pytest.raises(SystemExit) as exited:
            main([line.split()[1], "--help"])
        assert exited.value.code == 0
        assert set(option.findall(line)) <= set(option.findall(capsys.readouterr().out)), line


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


@pytest.mark.forks
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


def test_sweep_bad_spec(tmp_path):
    path = tmp_path / "spec.json"
    write_json(path, {"alphas": []})
    assert main(["sweep", "--spec", str(path)]) == 2
    write_json(path, {"alphas": [2.0]})
    assert main(["sweep", "--spec", str(path)]) == 2


def test_sweep_spec_absent_fields_take_dataclass_defaults():
    assert SweepSpec.from_json_dict({"alphas": [0.5]}) == SweepSpec(alphas=(0.5,))
    nested = SweepSpec.from_json_dict({"alphas": [0.5], "acquisition": {}, "noise": {}})
    assert nested == SweepSpec(alphas=(0.5,))
    spec = SweepSpec.from_json_dict(
        {"alphas": [0.5], "noise": {"depolarizing": 0.1}, "acquisition": {"seed": 9}}
    )
    assert spec == SweepSpec(alphas=(0.5,), noise=NoiseParams(depolarizing=0.1),
                             acquisition=AcquisitionConfig(seed=9))


def test_import_cli_leaves_process_pool_unloaded():
    # numpy imports numpy.random on first use, about 14 ms that `reconstruct` need not pay.
    code = ("import sys, bellmix.cli; "
            "assert not {'concurrent.futures', 'numpy.random'} & set(sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _bellmix_process(args, unbuffered=False, **kwargs):
    """`python -m bellmix.cli args`, run to completion with its stderr captured as text."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "bellmix.cli", *args], env=env,
                          stderr=subprocess.PIPE, text=True, **kwargs)


@pytest.mark.parametrize("args, code", [
    (["reconstruct", "{counts}", "--tolerance", "0"], 2),
    (["reconstruct", "{missing}"], 3),
    (["reconstruct", "{counts}", "--max-iterations", "0"], 4),
])
def test_the_bellmix_process_exits_with_mains_code(tmp_path, args, code):
    counts = tmp_path / "counts.csv"
    assert main(["simulate", "--pairs", "1e3", "--seed", "1", "--out", str(counts)]) == 0
    paths = {"counts": counts, "missing": tmp_path / "missing.csv"}
    child = _bellmix_process([arg.format(**paths) for arg in args], stdout=subprocess.DEVNULL)
    assert child.returncode == code
    assert (child.stderr.startswith("error: ") and child.stderr.count("\n") == 1) == (code != 4)


def test_the_bellmix_process_writes_the_default_state_to_stdout():
    child = _bellmix_process(["generate"], stdout=subprocess.PIPE)
    assert (child.returncode, child.stderr) == (0, "")
    assert np.abs(matrix_from_json_dict(json.loads(child.stdout))
                  - bell_state("phi-").matrix).max() <= 1e-12


def test_the_bellmix_process_runs_main_with_the_import_heap_frozen():
    # The probe replaces main, which run() looks up when it calls it.
    code = ("import gc, bellmix.cli; "
            "bellmix.cli.main = lambda: print(gc.get_freeze_count()) or 0; "
            "bellmix.cli.run()")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                           check=True)
    assert int(child.stdout) > 0


@pytest.mark.forks
def test_the_bellmix_process_forks_shares_that_write_the_serial_tree(tmp_path):
    # run() freezes the import heap before main(), so the shares fork from a frozen heap.
    spec = _sweep_spec(tmp_path, tmp_path / "serial")
    assert main(["sweep", "--spec", str(spec)]) == 0
    child = _bellmix_process(["sweep", "--spec", str(spec), "--out", str(tmp_path / "pooled"),
                              "--parallel", "2"], stdout=subprocess.DEVNULL)
    assert (child.returncode, child.stderr) == (0, "")
    assert _tree_bytes(tmp_path / "pooled") == _tree_bytes(tmp_path / "serial")


def test_main_leaves_the_callers_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert main(["generate"]) == 0
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [["generate"], ["simulate", "--pairs", "1e3"], ["paper-fixtures"]],
                         ids=lambda args: args[0])
def test_a_closed_stdout_exits_2_with_one_error_line(args, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe fails with EPIPE
    try:
        child = _bellmix_process(args, unbuffered, stdout=write_end)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (2, "error: cannot write stdout: Broken pipe\n")


_CONFIGS = (AcquisitionConfig, NoiseParams, SourceConfig, SweepSpec)

# (class, field, a value of the wrong kind, other fields): a string, None or a bool where a
# number goes, a string where a bool goes, an int where a string goes, None for a nested config.
_WRONG_KINDS = [
    (AcquisitionConfig, "pairs_per_setting", "1e5", {}),
    (AcquisitionConfig, "pairs_per_setting", True, {}),
    (AcquisitionConfig, "accidental_rate", None, {}),
    (AcquisitionConfig, "seed", "3", {}),
    (NoiseParams, "dephasing", None, {}),
    (NoiseParams, "dephasing", True, {}),
    (NoiseParams, "depolarizing", "0.1", {}),
    (SourceConfig, "alpha", "0.5", {}),
    (SourceConfig, "alpha", True, {}),  # not alpha = 1
    (SourceConfig, "phi", None, {}),
    (SourceConfig, "beta", True, {"gamma": 0.0}),
    (SourceConfig, "gamma", "0.7", {}),
    (SourceConfig, "signal_dc", False, {}),
    (SourceConfig, "noise", None, {}),
    (SweepSpec, "alphas", ("0.5",), {}),
    (SweepSpec, "alphas", (True,), {}),
    (SweepSpec, "alphas", None, {}),
    (SweepSpec, "acquisition", None, {}),
    (SweepSpec, "noise", None, {}),
    (SweepSpec, "outputs", 5, {}),
    (SweepSpec, "include_completely_mixed", "no", {}),  # truthy, yet not True
    (SweepSpec, "resamples", "3", {}),
    # NaN or an infinity where a number goes: a float kind is a finite number.
    (AcquisitionConfig, "pairs_per_setting", float("inf"), {}),
    (AcquisitionConfig, "accidental_rate", float("nan"), {}),
    (NoiseParams, "dephasing", float("nan"), {}),
    (NoiseParams, "depolarizing", float("-inf"), {}),
    (SourceConfig, "alpha", float("nan"), {}),
    (SourceConfig, "phi", float("-inf"), {}),
    (SourceConfig, "beta", complex(float("inf"), 0.0), {}),
    (SourceConfig, "gamma", complex(0.0, float("nan")), {}),
    # A complex amplitude, however large: the pump amplitudes are real.
    (SourceConfig, "beta", complex(1e308, 1e308), {}),
    (SourceConfig, "gamma", 0.8j, {"beta": 0.6}),
    (SourceConfig, "signal_dc", float("inf"), {}),
    (SweepSpec, "alphas", (0.5, float("nan")), {}),
]


@pytest.mark.parametrize("cls, field, value, others", _WRONG_KINDS,
                         ids=[f"{cls.__name__}.{field}={value!r}"
                              for cls, field, value, _ in _WRONG_KINDS])
def test_config_fields_of_the_wrong_kind_are_out_of_range(tmp_path, cls, field, value, others):
    if cls is SweepSpec:  # run on 1e3 pairs without error bars if it were built
        others = {"alphas": (0.5,), "acquisition": AcquisitionConfig(1e3, seed=3), "resamples": 0,
                  "outputs": str(tmp_path / "out")}
    entries = value if isinstance(value, tuple) else (value,)
    number = any(isinstance(x, complex) or isinstance(x, float) and not math.isfinite(x)
                 for x in entries)  # a number, yet not a finite real one
    kind = " a finite number, got " if number else ""
    with pytest.raises(OutOfRange, match=rf"^(each of )?{field} must be{kind}"):
        config = cls(**{**others, field: value})
        if cls is SweepSpec:
            run_sweep(config)
    assert os.listdir(tmp_path) == []


# Calls given an int above 1.8e308, which no float holds, and the name their error gives.
_HUGE_INTS = [
    pytest.param(lambda: AcquisitionConfig(pairs_per_setting=10**400), "pairs_per_setting",
                 id="AcquisitionConfig.pairs_per_setting"),
    pytest.param(lambda: AcquisitionConfig(accidental_rate=10**400), "accidental_rate",
                 id="AcquisitionConfig.accidental_rate"),
    pytest.param(lambda: SourceConfig(phi=10**400), "phi", id="SourceConfig.phi"),
    pytest.param(lambda: SourceConfig(beta=10**200, gamma=0), "|beta|^2",  # |beta|^2 = 10**400
                 id="SourceConfig.beta"),
    pytest.param(lambda: visibility_scan(mix_duty_cycle(0.25), [10**400], AcquisitionConfig()),
                 "HWP angles", id="visibility_scan"),
    pytest.param(lambda: mle_reconstruct(np.full((9, 4), 250), standard_projector_set(),
                                         tolerance=10**400), "tolerance", id="mle_reconstruct"),
]


@pytest.mark.parametrize("call, name", _HUGE_INTS)
def test_ints_no_float_holds_are_out_of_range(call, name):
    with pytest.raises(OutOfRange, match=re.escape(name)):
        call()


def test_every_config_field_has_its_kind_checked():
    # A float, bool or str field, or a tuple of one, is checked by its annotation;
    # an int field by its own range check; a nested config as an instance of its class.
    for cls in _CONFIGS:
        for name, kind in typing.get_type_hints(cls).items():
            entry = typing.get_args(kind)[0] if typing.get_origin(kind) is tuple else kind
            checked = entry in (float, bool, str) or kind in _CONFIGS
            assert checked or (kind, name) in ((int, "seed"), (int, "resamples")), (cls, name)
    cases = {(cls, field) for cls, field, _, _ in _WRONG_KINDS}
    assert cases == {(cls, f.name) for cls in _CONFIGS for f in fields(cls)}


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
        {"acquisition": {"pairs_per_setting": 1.7e308, "accidental_rate": 1.7e308}},  # sum: inf
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


def test_numpy_rates_summing_past_the_poisson_limit_are_out_of_range():
    # JSON gives Python floats, whose sum is inf; numpy's sum would only warn on overflow.
    acquisition = AcquisitionConfig(pairs_per_setting=np.float64(1.7e308),
                                    accidental_rate=np.float64(1.7e308))
    with pytest.raises(OutOfRange, match=r"^pairs_per_setting \+ accidental_rate must be at most"):
        SweepSpec(alphas=(0.5,), acquisition=acquisition)


def test_sweep_empty_out_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = _sweep_spec(tmp_path, tmp_path / "out")
    assert main(["sweep", "--spec", str(spec), "--out", ""]) == 2
    assert "outputs must name a directory" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["spec.json"]


def test_resamples_one_is_rejected(tmp_path, capsys):
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


def _fixture_lines(simulated_purity):
    return [
        "PASS reference_purity: value=0.627434 expected in [0.624500, 0.634500]",
        "PASS reference_tangle: value=0.242970 expected in [0.237600, 0.257600]",
        "PASS reference_fidelity_vs_quarter_mix: value=0.980626 expected in [0.961400, 1.001400]",
        "PASS mixed_target_self_fidelity: value=1.000000 expected in [1.000000, 1.000000]",
        f"{simulated_purity} expected in [0.250000, 0.270000]",
        "PASS simulated_mixed_tangle: value=0.000000 expected in [0.000000, 0.010000]",
    ]


@pytest.mark.parametrize("flags, code, simulated_purity", [
    ([], 0, "PASS simulated_mixed_purity: value=0.250009"),
    (["--pairs", "10"], 1, "FAIL simulated_mixed_purity: value=0.339037"),
], ids=["defaults", "pairs_10"])
def test_paper_fixtures_stdout_is_pinned(capsys, flags, code, simulated_purity):
    assert main(["paper-fixtures", *flags]) == code
    assert capsys.readouterr().out.splitlines() == _fixture_lines(simulated_purity)


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


@pytest.mark.parametrize("resamples, parallel, message", [
    (2.5, 0, r"^resamples must be 0 \(no error bars\) or >= 2, got 2.5$"),
    (True, 0, r"^resamples must be 0 \(no error bars\) or >= 2, got True$"),
    (0, 2.5, r"^parallel must be >= 0 \(0 and 1 run serially\), got 2.5$"),
    (0, None, r"^parallel must be >= 0 \(0 and 1 run serially\), got None$"),
    (0, "2", r"^parallel must be >= 0 \(0 and 1 run serially\), got '2'$"),
])
def test_sweep_rejects_settings_that_are_not_integers(tmp_path, resamples, parallel, message):
    # Three points, so a pool of 2.5 workers is not cut down to a whole number of points.
    out = tmp_path / "out"
    with pytest.raises(OutOfRange, match=message):
        run_sweep(SweepSpec(alphas=(0.2, 0.5, 0.8), acquisition=AcquisitionConfig(1e3, seed=3),
                            outputs=str(out), resamples=resamples), parallel=parallel)
    assert not out.exists()


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
        ["simulate", "--pairs", "1e3", "--out", str(blocker / "counts.csv")],
        ["sweep", "--spec", str(_sweep_spec(tmp_path, blocker / "out"))],
        ["sweep", "--spec", str(_sweep_spec(tmp_path, blocker))],
    ]
    for argv in runs:
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {blocker}") and err.count("\n") == 1


@pytest.mark.forks
@pytest.mark.parametrize("parallel", ["0", "2"])
def test_unwritable_outputs_exit_2_before_any_compute(tmp_path, capsys, parallel):
    # With counts this low every point raises DataParse once computed, which exits 3.
    blocker = tmp_path / "file"
    blocker.write_text("a regular file, not a directory", encoding="utf-8")
    spec = tmp_path / "spec.json"
    write_json(spec, {"alphas": [0.0, 0.5], "acquisition": {"pairs_per_setting": 1e-9},
                      "outputs": str(blocker / "out"), "resamples": 0})
    assert main(["sweep", "--spec", str(spec), "--parallel", parallel]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {blocker}")


@pytest.mark.forks
@pytest.mark.parametrize("parallel, runs", [("0", [3]), ("2", [3])], ids=["serial", "pooled"])
def test_unwritable_outputs_of_a_point_exit_2_without_recomputing(tmp_path, capsys, monkeypatch,
                                                                   parallel, runs):
    parent, real_fit, sizes = os.getpid(), sweep._fit, []

    def fit(spec, points, *resamples):
        if os.getpid() == parent:
            sizes.append(len(points))
        return real_fit(spec, points, *resamples)

    monkeypatch.setattr(sweep, "_fit", fit)
    blocked = tmp_path / "out" / "alpha_1" / "recon.json"
    blocked.mkdir(parents=True)  # a directory where the point's recon.json goes
    spec = tmp_path / "spec.json"
    write_json(spec, {"alphas": [0.0, 0.5, 1.0], "acquisition": {"pairs_per_setting": 1e3},
                      "outputs": str(tmp_path / "out"), "resamples": 3})
    assert main(["sweep", "--spec", str(spec), "--parallel", parallel]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {blocked}")
    assert sizes == runs  # the calling process fits the grid once, serial or pooled


@pytest.mark.forks
@pytest.mark.parametrize("parallel", ["0", "2"], ids=["serial", "pooled"])
def test_a_failed_sweep_leaves_no_earlier_sweep_csv(tmp_path, parallel):
    table = tmp_path / "out" / "sweep.csv"
    spec = tmp_path / "spec.json"
    base = {"alphas": [0.0, 0.5], "outputs": str(tmp_path / "out"), "resamples": 0}
    write_json(spec, {**base, "acquisition": {"pairs_per_setting": 1e3}})
    assert main(["sweep", "--spec", str(spec), "--parallel", parallel]) == 0
    assert table.is_file()
    # With counts this low every point raises DataParse once computed, which exits 3.
    write_json(spec, {**base, "acquisition": {"pairs_per_setting": 1e-9}})
    assert main(["sweep", "--spec", str(spec), "--parallel", parallel]) == 3
    assert not table.exists()


@pytest.mark.forks
@pytest.mark.parametrize("parallel", ["0", "2"], ids=["serial", "pooled"])
def test_a_sweep_csv_directory_exits_2_before_any_compute(tmp_path, capsys, parallel):
    # With counts this low every point raises DataParse once computed, which exits 3.
    blocked = tmp_path / "out" / "sweep.csv"
    blocked.mkdir(parents=True)
    spec = tmp_path / "spec.json"
    write_json(spec, {"alphas": [0.0, 0.5], "acquisition": {"pairs_per_setting": 1e-9},
                      "outputs": str(tmp_path / "out"), "resamples": 0})
    assert main(["sweep", "--spec", str(spec), "--parallel", parallel]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {blocked}")


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
    "projectors": ("projectors.json", 3,
                   ["reconstruct", "{dir}/uniform.csv", "--projectors", "{file}"]),
    "state": ("state.json", 3, ["metrics", "--state", "{file}"]),
    "spec": ("spec.json", 2, ["sweep", "--spec", "{file}", "--out", "{dir}/sweep"]),
    "config": ("config.json", 2, ["generate", "--config", "{file}",
                                  "--out", "{dir}/generated.json"]),
}

_UNIFORM = np.full((9, 4), 250)
_VALID = {
    "projectors": projector_set_to_json_dict(standard_projector_set()),
    "state": matrix_to_json_dict(np.eye(4) / 4.0),
    "spec": {"alphas": [0.5], "acquisition": {"pairs_per_setting": 1e3, "accidental_rate": 0.0,
                                              "seed": 1},
             "noise": {"dephasing": 0.0, "depolarizing": 0.0}, "resamples": 0},
    "config": {"alpha": 0.25, "phi": 0.0, "beta": 0.6, "gamma": 0.8, "signal_dc": 0.0,
               "noise": {"dephasing": 0.0, "depolarizing": 0.0}},
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


# I/2 as a matrix file, written out: matrix_to_json_dict writes only 4x4 matrices.
_HALF_I2 = {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}


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


# (kind, content, exit code) for the explicit examples.
_EXAMPLES = [
    *((kind, b"\xff\xfe{\x80", code) for kind, (_, code, _) in _FILE_INPUTS.items()),
    *((kind, b"[1, 2]", code) for kind, (_, code, _) in _FILE_INPUTS.items()),
    *((kind, _with_literal(doc, path, "1e400"), _FILE_INPUTS[kind][1])
      for kind, doc in _VALID.items() for path in _numeric_paths(doc)),
    # An int no float holds; a spec's resamples takes any such int, which the test runs at 0.
    *((kind, _with_literal(doc, path, str(10**400)), _FILE_INPUTS[kind][1])
      for kind, doc in _VALID.items() for path in _numeric_paths(doc) if path != ("resamples",)),
    # A projector set places its settings by index: integers 0..n-1, each once, in any order.
    *(("projectors", _with_literal(_VALID["projectors"], ("settings", 3, "index"), literal), 3)
      for literal in ("8", "9", "true", '"3"', "3.0")),
    # Every projector I/4, so no setting is a measurement; or one of setting 0's checks fails.
    ("projectors", _projector_file(np.full((9, 4, 4, 4), np.eye(4) / 4.0)), 3),
    *(("projectors", _projector_file(projectors), 3)
      for projectors in broken_setting_zero(standard_projector_set().projectors).values()),
    *(("state", _with_literal(_VALID["state"], path, literal), 3)
      for path, literal in ((("dim",), "4.7"), (("dim",), "true"), (("dim",), '"4"'),
                            (("re", 0, 0), '"0.25"'), (("im", 1, 2), "true"),
                            (("re", 3), "[0.25, 0, 0]"), (("im",), "0"))),
    ("counts_csv", b"setting_index,outcome_label,count\n0,TT,1e400\n", 3),
    ("counts_csv", b"setting_index,outcome_label,count\n0,TT,-50\n", 3),
    ("counts_csv", ("setting_index,outcome_label,count\n0,TT,%d\n" % 10**400).encode(), 3),
    ("counts_csv", b"setting_index,outcome_label,count\n0,TT\n", 3),
    ("counts_csv", (_counts_csv(range(9)) + "4,RT,250\n").encode(), 3),
    ("counts_csv", ("setting_index,outcome_label,count\n%s,TT,1\n" % ("1" * 5000)).encode(), 3),
    # A count table needs settings 0..n-1, each once, with four counts each.
    ("counts_csv", _counts_csv([*range(8), 9]).encode(), 3),
    ("counts_csv", b"setting_index,outcome_label,count\n9223372036854775806,TT,1\n", 3),
    ("counts_csv", _counts_csv(range(9)).replace("3,RR,250\n", "").encode(), 3),
    ("state", _overflowing_state(), 3),
    ("state", b"[" * 100000, 3),  # nested past the recursion limit
    ("config", b'{"alpha": 0.2, "beta": 1e308, "gamma": 1e308}', 2),  # |beta|^2 overflows
]

# (kind, content, exit code, its error line with the file as {file}) of failures each of the
# four error kinds covers.
_ERROR_LINES = [
    ("state", _dark_state(), 3, "both +-45 degree coincidence rates vanish"),
    ("counts_csv", _counts_csv(range(9)).replace(",250", ",0").encode(), 3,
     "all counts are zero; nothing to reconstruct"),
    ("projectors", json.dumps({"settings": _VALID["projectors"]["settings"][:8]}).encode(), 3,
     "counts of shape (9, 4) do not match the projector set's (8, 4)"),
    # A matrix file is 4x4, whatever reads it.
    *((kind, document, 3, "matrix JSON needs dim 4 and 4 x 4 lists of finite numbers re and im, "
                          "got dim=2")
      for kind, document in (
          ("projectors", json.dumps({"settings": [
              {**entry, "projectors": dict.fromkeys(entry["projectors"], _HALF_I2)}
              for entry in _VALID["projectors"]["settings"]]}).encode()),
          ("state", json.dumps(_HALF_I2).encode()))),
    # Nine copies of HV/HV (standard setting 0), and HV/HV alternated with DA/DA (setting 4).
    *(("projectors", _projector_file(standard_projector_set().projectors[settings]), 3,
       f"projector set spans {rank} of 16 dimensions; no state is identifiable")
      for settings, rank in (([0] * 9, 4), ([0, 4] * 4 + [0], 7))),
    ("config", b'{"beta": 0.9, "gamma": 0.9}', 2,
     "|beta|^2 + |gamma|^2 = 1.62, not 1 within 1e-12"),
    # A config of the flat format, complex amplitudes as *_re/*_im and the noise beside them.
    ("config", b'{"alpha": 0.25, "beta_re": 0.6, "beta_im": 0.0, "gamma_re": 0.8, "dephasing": 0}',
     2, "unknown config fields: ['beta_im', 'beta_re', 'dephasing', 'gamma_re']"),
    ("config", b"{not json", 2, "config {file} is not valid JSON: Expecting property name "
                                "enclosed in double quotes: line 1 column 2 (char 1)"),
    ("spec", b"{not json", 2, "sweep spec {file} is not valid JSON: Expecting property name "
                              "enclosed in double quotes: line 1 column 2 (char 1)"),
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


def _run_sweep_without_resamples(spec, parallel):
    """run_sweep of the spec read at 0 resamples: a valid spec may ask for 2**63 of them."""
    return run_sweep(replace(spec, resamples=0), parallel=parallel)


def _with_examples(test):
    for kind, content, code, line in [*(entry + (None,) for entry in _EXAMPLES), *_ERROR_LINES]:
        test = example(kind=kind, content=content, code=code, line=line)(test)
    return test


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(sorted(_FILE_INPUTS)),
    content=st.binary(max_size=200) | _JSON_VALUES.map(lambda value: json.dumps(value).encode()),
    code=st.none(),
    line=st.none(),
)
@_with_examples
def test_any_file_content_exits_with_a_documented_code(file_dir, capsys, monkeypatch, kind,
                                                        content, code, line):
    """Whatever a file holds, the CLI exits 0, 2, 3 or 4 with at most a one-line error.

    The explicit examples also name the exit code they must reach, and some the error line.
    """
    monkeypatch.setattr("bellmix.cli.run_sweep", _run_sweep_without_resamples)
    name, _, argv = _FILE_INPUTS[kind]
    path = file_dir / name
    path.write_bytes(content)
    capsys.readouterr()
    returned = main([arg.format(file=path, dir=file_dir) for arg in argv])
    assert returned in ((0, 2, 3, 4) if code is None else (code,))
    if returned in (2, 3):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert line is None or err == f"error: {line.format(file=path)}\n"
