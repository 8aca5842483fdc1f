import numpy as np
import pytest

from bellmix.counting import (
    AcquisitionConfig,
    CountRecord,
    born_probabilities,
    counts_from_csv,
    counts_from_json_dict,
    counts_to_csv,
    counts_to_json_dict,
    derive_seed,
    simulate_counts,
    stream,
    validate_against,
    visibility_scan,
)
from bellmix.errors import DataParse, IndexOutOfRange, MismatchedData, OutOfRange
from bellmix.optics import WaveplateSetting, analyzer_projectors, standard_projector_set
from bellmix.states import bell_state, completely_mixed, mix_duty_cycle

PSET = standard_projector_set()


def setting_index(signal_basis, idler_basis):
    return next(
        i for i, s in enumerate(PSET.settings)
        if s.signal_basis == signal_basis and s.idler_basis == idler_basis
    )


def test_born_computational_state():
    from bellmix.linalg import PureState

    hh = PureState(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)).density()
    probs = born_probabilities(hh, PSET, setting_index("HV", "HV"))
    assert np.allclose(probs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_born_uniform_in_diagonal_setting():
    probs = born_probabilities(mix_duty_cycle(0.5), PSET, setting_index("DA", "DA"))
    assert np.allclose(probs, 0.25, atol=1e-12)


def test_born_bell_anticorrelation_in_diagonal_basis():
    # <DD|phi-> = 0 while |<DA|phi->|^2 = 1/2: perfect anticorrelation.
    probs = born_probabilities(bell_state("phi-").density(), PSET, setting_index("DA", "DA"))
    assert probs[0] == pytest.approx(0.0, abs=1e-12)  # TT = DD
    assert probs[1] == pytest.approx(0.5, abs=1e-12)  # TR = DA
    assert probs[2] == pytest.approx(0.5, abs=1e-12)  # RT = AD
    assert probs[3] == pytest.approx(0.0, abs=1e-12)  # RR = AA


def test_born_bounds():
    with pytest.raises(IndexOutOfRange):
        born_probabilities(completely_mixed(), PSET, 9)


def test_simulate_counts_deterministic():
    acq = AcquisitionConfig(pairs_per_setting=1e4, seed=99)
    rho = mix_duty_cycle(0.25)
    first = simulate_counts(rho, PSET, acq)
    second = simulate_counts(rho, PSET, acq)
    assert first == second
    assert len(first) == 9
    different = simulate_counts(rho, PSET, AcquisitionConfig(pairs_per_setting=1e4, seed=100))
    assert different != first


def test_simulate_zero_probability_outcomes_stay_zero():
    from bellmix.linalg import PureState

    hh = PureState(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)).density()
    records = simulate_counts(hh, PSET, AcquisitionConfig(pairs_per_setting=1e6, seed=1))
    hv = records[setting_index("HV", "HV")]
    assert hv.outcome_counts[1] == 0 and hv.outcome_counts[2] == 0 and hv.outcome_counts[3] == 0


def test_simulate_frequencies_converge():
    acq = AcquisitionConfig(pairs_per_setting=1e6, seed=23)
    bound = 5.0 / np.sqrt(acq.pairs_per_setting)
    for rho in (completely_mixed(), mix_duty_cycle(0.25), bell_state("psi+").density()):
        records = simulate_counts(rho, PSET, acq)
        for record in records:
            probs = born_probabilities(rho, PSET, record.setting_index)
            total = sum(record.outcome_counts)
            for count, p in zip(record.outcome_counts, probs):
                assert abs(count / total - p) <= bound


def test_simulate_frequencies_huge_pairs():
    # Law of large numbers at 1e8 pairs: 3e-4 is a >5 sigma Poisson margin.
    records = simulate_counts(
        completely_mixed(), PSET, AcquisitionConfig(pairs_per_setting=1e8, seed=23)
    )
    for record in records:
        total = sum(record.outcome_counts)
        for count in record.outcome_counts:
            assert abs(count / total - 0.25) <= 3e-4


def test_poisson_moments():
    # One outcome with mean 100, sampled across 1000 derived seeds.
    counts = np.array(
        [stream(derive_seed(12345, 0, rep), 0, 0).poisson(100.0) for rep in range(1000)],
        dtype=float,
    )
    assert abs(counts.mean() - 100.0) <= 5.0
    assert abs(counts.var(ddof=1) - 100.0) <= 15.0


def test_accidentals_lift_zero_outcomes():
    from bellmix.linalg import PureState

    hh = PureState(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)).density()
    acq = AcquisitionConfig(pairs_per_setting=1e4, accidental_rate=50.0, seed=3)
    records = simulate_counts(hh, PSET, acq)
    hv = records[setting_index("HV", "HV")]
    background = hv.outcome_counts[1:]
    assert all(10 <= c <= 110 for c in background)  # Poisson(50) within ~7 sigma


def test_visibility_scan_bell_extremes():
    # For phi- the transmitted-transmitted rate peaks at +22.5 degrees (the
    # DA coincidence) and vanishes at -22.5 degrees (the AA coincidence).
    rho = bell_state("phi-").density()
    acq = AcquisitionConfig(pairs_per_setting=1e6, seed=5)
    scan = dict(visibility_scan(rho, [-22.5, 22.5], acq))
    assert scan[-22.5] == 0
    assert abs(scan[22.5] - 0.5e6) <= 5 * np.sqrt(0.5e6)


def test_visibility_scan_deterministic():
    rho = mix_duty_cycle(0.25)
    acq = AcquisitionConfig(pairs_per_setting=1e5, seed=77)
    assert visibility_scan(rho, [0.0, 10.0, 20.0], acq) == visibility_scan(
        rho, [0.0, 10.0, 20.0], acq
    )


def _noiseless_tt_means(rho, angles):
    from bellmix.optics import CALIBRATION_IDLER

    means = []
    for angle in angles:
        proj = analyzer_projectors(WaveplateSetting(0.0, float(angle)), CALIBRATION_IDLER)[0]
        means.append(float(np.real(np.trace(rho.matrix @ proj))))
    return np.array(means)


def test_scan_means_follow_cos_4theta():
    angles = np.arange(0.0, 180.0, 5.0)
    theta = np.deg2rad(angles)
    design = np.column_stack([np.ones_like(theta), np.cos(4 * theta), np.sin(4 * theta)])
    for alpha in (0.0, 0.25, 0.4):
        means = _noiseless_tt_means(mix_duty_cycle(alpha), angles)
        coef, *_ = np.linalg.lstsq(design, means, rcond=None)
        residual = means - design @ coef
        assert np.abs(residual).max() <= 1e-12


def test_scan_fitted_visibility_quarter_mixture():
    angles = np.arange(0.0, 180.0, 7.5)
    acq = AcquisitionConfig(pairs_per_setting=1e6, seed=17)
    scan = visibility_scan(mix_duty_cycle(0.25), angles, acq)
    theta = np.deg2rad([a for a, _ in scan])
    counts = np.array([c for _, c in scan], dtype=float)
    design = np.column_stack([np.ones_like(theta), np.cos(4 * theta), np.sin(4 * theta)])
    coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
    fitted = np.hypot(coef[1], coef[2]) / coef[0]
    assert fitted == pytest.approx(0.5, abs=0.01)


def test_scan_flat_for_balanced_mixture():
    angles = np.arange(0.0, 180.0, 7.5)
    acq = AcquisitionConfig(pairs_per_setting=1e6, seed=19)
    scan = visibility_scan(mix_duty_cycle(0.5), angles, acq)
    theta = np.deg2rad([a for a, _ in scan])
    counts = np.array([c for _, c in scan], dtype=float)
    design = np.column_stack([np.ones_like(theta), np.cos(4 * theta), np.sin(4 * theta)])
    coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
    modulation = np.hypot(coef[1], coef[2])
    assert modulation <= 3.0 * np.sqrt(counts.mean())


def test_acquisition_validation():
    with pytest.raises(OutOfRange):
        AcquisitionConfig(pairs_per_setting=0.0)
    with pytest.raises(OutOfRange):
        AcquisitionConfig(accidental_rate=-1.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(OutOfRange):
            AcquisitionConfig(pairs_per_setting=bad)
        with pytest.raises(OutOfRange):
            AcquisitionConfig(accidental_rate=bad)


def test_counts_csv_round_trip():
    records = simulate_counts(
        mix_duty_cycle(0.3), PSET, AcquisitionConfig(pairs_per_setting=1e3, seed=8)
    )
    text = counts_to_csv(records)
    back = counts_from_csv(text)
    assert [r.setting_index for r in back] == [r.setting_index for r in records]
    assert [r.outcome_counts for r in back] == [r.outcome_counts for r in records]


def test_counts_json_round_trip():
    records = simulate_counts(
        mix_duty_cycle(0.3), PSET, AcquisitionConfig(pairs_per_setting=1e3, seed=8)
    )
    back = counts_from_json_dict(counts_to_json_dict(records))
    assert back == records


def test_counts_csv_rejects_malformed():
    with pytest.raises(DataParse):
        counts_from_csv("not,a,header\n0,TT,10\n")
    with pytest.raises(DataParse):
        counts_from_csv("setting_index,outcome_label,count\n0,XX,10\n")
    with pytest.raises(DataParse):
        counts_from_csv("setting_index,outcome_label,count\n0,TT,ten\n")
    with pytest.raises(DataParse):
        counts_from_csv("setting_index,outcome_label,count\n0,TT,10\n")  # missing outcomes


def test_validate_against_projector_set():
    records = [CountRecord(setting_index=0, outcome_counts=(1, 2, 3, 4))]
    with pytest.raises(MismatchedData):
        validate_against(records, PSET)
    bad = [CountRecord(setting_index=12, outcome_counts=(1, 2, 3, 4))]
    with pytest.raises(MismatchedData):
        validate_against(bad, PSET)


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
    assert 0 <= derive_seed(2**63, 5) < 2**64
