import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellmix.counting import (
    _BOOTSTRAP_STREAM,
    _SCAN_STREAM,
    AcquisitionConfig,
    CountRecord,
    born_probabilities,
    counts_from_csv,
    counts_from_json_dict,
    counts_to_csv,
    counts_to_json_dict,
    _philox_block,
    _philox_keys,
    _POISSON_MAX,
    _multiplication,
    _poisson,
    _ptrs,
    derive_seed,
    read_counts_json,
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
    from bellmix.linalg import DensityMatrix

    hh = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    probs = born_probabilities(hh, PSET, setting_index("HV", "HV"))
    assert np.allclose(probs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_born_uniform_in_diagonal_setting():
    probs = born_probabilities(mix_duty_cycle(0.5), PSET, setting_index("DA", "DA"))
    assert np.allclose(probs, 0.25, atol=1e-12)


def test_born_bell_anticorrelation_in_diagonal_basis():
    # <DD|phi-> = 0 while |<DA|phi->|^2 = 1/2: perfect anticorrelation.
    probs = born_probabilities(bell_state("phi-"), PSET, setting_index("DA", "DA"))
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
    from bellmix.linalg import DensityMatrix

    hh = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    records = simulate_counts(hh, PSET, AcquisitionConfig(pairs_per_setting=1e6, seed=1))
    hv = records[setting_index("HV", "HV")]
    assert hv.outcome_counts[1] == 0 and hv.outcome_counts[2] == 0 and hv.outcome_counts[3] == 0


def test_simulate_frequencies_converge():
    acq = AcquisitionConfig(pairs_per_setting=1e6, seed=23)
    bound = 5.0 / np.sqrt(acq.pairs_per_setting)
    for rho in (completely_mixed(), mix_duty_cycle(0.25), bell_state("psi+")):
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
    from bellmix.linalg import DensityMatrix

    hh = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    acq = AcquisitionConfig(pairs_per_setting=1e4, accidental_rate=50.0, seed=3)
    records = simulate_counts(hh, PSET, acq)
    hv = records[setting_index("HV", "HV")]
    background = hv.outcome_counts[1:]
    assert all(10 <= c <= 110 for c in background)  # Poisson(50) within ~7 sigma


def test_visibility_scan_bell_extremes():
    # For phi- the transmitted-transmitted rate peaks at +22.5 degrees (the
    # DA coincidence) and vanishes at -22.5 degrees (the AA coincidence).
    rho = bell_state("phi-")
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
    data = counts_to_json_dict(records)
    assert all(set(entry) == {"setting_index", "outcome_counts"} for entry in data["records"])
    assert counts_from_json_dict(data) == records


def test_counts_json_ignores_old_duration_tag(tmp_path):
    records = simulate_counts(
        mix_duty_cycle(0.3), PSET, AcquisitionConfig(pairs_per_setting=1e3, seed=8)
    )
    data = counts_to_json_dict(records)
    for entry in data["records"]:
        entry["duration_tag"] = "pairs=1000"
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert read_counts_json(path) == records


def test_counts_csv_rejects_malformed():
    with pytest.raises(DataParse):
        counts_from_csv("not,a,header\n0,TT,10\n")
    with pytest.raises(DataParse):
        counts_from_csv("setting_index,outcome_label,count\n0,XX,10\n")
    with pytest.raises(DataParse):
        counts_from_csv("setting_index,outcome_label,count\n0,TT,ten\n")
    with pytest.raises(DataParse):
        counts_from_csv("setting_index,outcome_label,count\n0,TT,10\n")  # missing outcomes
    valid = counts_to_csv([CountRecord(setting_index=s, outcome_counts=(50084, 1, 2, 3))
                           for s in range(9)])
    assert counts_from_csv(valid)[0].outcome_counts == (50084, 1, 2, 3)
    odd_lines = ["0,TT,50_084", "0,TT,+50084", "0,TT, 50084", "0,TT,5008\u0664",  # Arabic-Indic 4
                 "0_0,TT,50084", "+0,TT,50084", "\u0660,TT,50084"]
    for line in odd_lines:
        with pytest.raises(DataParse, match="ASCII digits"):
            counts_from_csv(valid.replace("0,TT,50084", line, 1))


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


# ---------------------------------------------------------------------------
# The determinism contract: counts pinned to values recorded with the
# one-stream-per-outcome implementation, and the batched key derivation
# checked against numpy's SeedSequence.
# ---------------------------------------------------------------------------

_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1, 123456789, 9876543210123]


@pytest.mark.parametrize("rho, pairs, accidentals, seed, digest", [
    (mix_duty_cycle(0.25), 1e4, 0.0, 0,
     "b297b52145b45ba062178023fd0299ce0441813599aa269c61c0203c3364f315"),
    (bell_state("phi-"), 1e6, 50.0, 123456789,
     "0db3135834fe942d94bc42b6713cf271c6ff810661e0bb3aa78b44b03f1c9fe9"),
    (completely_mixed(), 1e7, 0.0, 2**63 + 12345,
     "4746218a7c228ebd3a8d7a4b93770f3d0800e7be52606949b238a442b0d9b14c"),
    (mix_duty_cycle(0.1), 1e2, 2.5, 2**64 - 1,
     "5d0f27c8387f146e017c641d586b5b108160910a72c52473afd7ec89dbd81f9c"),
    (mix_duty_cycle(0.4), 1e5, 0.0, 2**32,
     "06186e37de4ebc3b54dded20005c6dc5111d455d9c5666d9b5d1d57603d4af38"),
])
def test_simulated_counts_are_pinned(rho, pairs, accidentals, seed, digest):
    acq = AcquisitionConfig(pairs_per_setting=pairs, accidental_rate=accidentals, seed=seed)
    text = counts_to_csv(simulate_counts(rho, PSET, acq))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_visibility_scan_is_pinned():
    acq = AcquisitionConfig(pairs_per_setting=1e5, accidental_rate=3.0, seed=77)
    scan = visibility_scan(mix_duty_cycle(0.25), [0.0, 10.0, 22.5, 45.0, -22.5], acq)
    assert scan == [(0.0, 25001), (10.0, 32913), (22.5, 37806), (45.0, 24919), (-22.5, 12449)]
    assert visibility_scan(mix_duty_cycle(0.25), [], acq) == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_visibility_scan_rejects_non_finite_angles(bad):
    acq = AcquisitionConfig(pairs_per_setting=1e5, accidental_rate=2.0, seed=1)
    with pytest.raises(OutOfRange):
        visibility_scan(mix_duty_cycle(0.25), [0.0, bad], acq)


def _scan_means(rho, angles, acq):
    return [acq.pairs_per_setting * max(0.0, p) + acq.accidental_rate
            for p in _noiseless_tt_means(rho, angles)]


def test_simulated_counts_equal_one_stream_per_outcome():
    acq = AcquisitionConfig(pairs_per_setting=1e3, accidental_rate=0.5, seed=2**40 + 7)
    rho = mix_duty_cycle(0.3)
    expected = [
        tuple(int(stream(acq.seed, setting, outcome).poisson(acq.pairs_per_setting * float(p)
                                                             + acq.accidental_rate))
              for outcome, p in enumerate(born_probabilities(rho, PSET, setting)))
        for setting in range(PSET.n_settings)
    ]
    assert [r.outcome_counts for r in simulate_counts(rho, PSET, acq)] == expected
    scan = visibility_scan(rho, [5.0, 50.0], acq)
    assert [count for _, count in scan] == [
        int(stream(acq.seed, _SCAN_STREAM, index).poisson(mean))
        for index, mean in enumerate(_scan_means(rho, [5.0, 50.0], acq))
    ]


def test_philox_keys_equal_seed_sequence():
    keys = [(0, 0), (8, 3), (101, 17), (202, 49), (2**32 - 1, 0), (0, 2**32 - 1),
            (2**32 - 1, 2**32 - 1), (2**31, 12345)]
    got = _philox_keys(_EDGE_SEEDS, keys)
    assert got.shape == (len(_EDGE_SEEDS), len(keys), 2) and got.dtype == np.uint64
    for b, seed in enumerate(_EDGE_SEEDS):
        for k, key in enumerate(keys):
            sequence = np.random.SeedSequence(entropy=seed, spawn_key=key)
            assert got[b, k].tolist() == sequence.generate_state(2, np.uint64).tolist()
            philox = stream(seed, *key).bit_generator
            assert got[b, k].tolist() == philox.state["state"]["key"].tolist()


def test_derive_seed_is_first_philox_key_word():
    # Bootstrap resample seeds of a whole stack come from one _philox_keys call.
    keys = [(_BOOTSTRAP_STREAM, index) for index in range(50)]
    seeds = [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 123456789]
    words = _philox_keys(seeds, keys)[..., 0]
    for b, seed in enumerate(seeds):
        assert words[b].tolist() == [derive_seed(seed, *key) for key in keys]


def test_poisson_rows_equal_streams():
    keys = [(setting, outcome) for setting in range(9) for outcome in range(4)]
    means = np.linspace(0.0, 3e5, len(keys))
    means[1:4] = [0.5, 9.99, 10.0]  # both sides of numpy's Poisson method switch
    seeds = [0, 2**32, 2**64 - 1, 31337]
    counts = _poisson(means, seeds, keys)
    assert counts.shape == (len(seeds), len(keys))
    for b, seed in enumerate(seeds):
        assert counts[b].tolist() == [
            int(stream(seed, *key).poisson(mean)) for key, mean in zip(keys, means)
        ]


# Philox's key bumps: a key word n bumps short of 2**64 wraps to 0 on bump n.
_BUMPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


@pytest.mark.parametrize("key", [
    (0, 0), (2**64 - 1, 2**64 - 1), (2**64 - 1, 0), (2**64 - _BUMPS[0], 2**64 - _BUMPS[1]),
    (2**64 - _BUMPS[0] + 1, 2**64 - 5 * _BUMPS[1] % 2**64), (0x0123456789ABCDEF, 2**63),
])
def test_philox_block_equals_numpy(key):
    block = _philox_block(np.array([key, key[::-1]], dtype=np.uint64))
    assert block.dtype == np.uint64 and block.shape == (4, 2)
    for column, words in enumerate([key, key[::-1]]):
        expected = np.random.Philox(key=np.array(words, dtype=np.uint64)).random_raw(4)
        assert block[:, column].tolist() == expected.tolist()


def _ptrs_step(seed, key, mean):
    """(path, attempt) that ends numpy's random_poisson_ptrs for stream(seed, *key).poisson(mean).

    A scalar transcription in Python floats: path is "fast" (the squeeze
    test), "log" (the log test), or "later" when attempts 1 and 2 both reject.
    """
    words = stream(seed, *key).bit_generator.random_raw(4).tolist()
    u = [(word >> 11) * 2.0**-53 for word in words]
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    invalpha, vr = 1.1239 + 1.1328 / (b - 3.4), 0.9277 - 3.6224 / (b - 2)
    for attempt in (1, 2):
        U, V = u[2 * attempt - 2] - 0.5, u[2 * attempt - 1]
        us = 0.5 - abs(U)
        k = math.floor((2 * a / us + b) * U + mean + 0.43)
        if us >= 0.07 and V <= vr:
            return "fast", attempt
        if k < 0 or (us < 0.013 and V > us):
            continue
        lhs = math.log(V) + math.log(invalpha) - math.log(a / (us * us) + b)
        if lhs <= -mean + k * math.log(mean) - math.lgamma(k + 1):
            return "log", attempt
    return "later", 3


# Seeds found by search whose draw at key (3, 1) and mean 2.5e5 ends at each step.
_PTRS_STEPS = {("log", 1): 15, ("fast", 2): 3, ("log", 2): 96, ("later", 3): 155}


def test_pinned_seeds_reach_every_ptrs_step():
    for step, seed in _PTRS_STEPS.items():
        assert _ptrs_step(seed, (3, 1), 2.5e5) == step
    # Left to numpy: a draw needing a third attempt, and one whose attempt 2
    # log test at mean 1e9 is decided within the margin.
    assert _ptrs_step(96, (3, 1), 1e9) == ("log", 2)
    for seed, mean in ((_PTRS_STEPS["later", 3], 2.5e5), (96, 1e9)):
        u = (_philox_block(_philox_keys([seed], [(3, 1)])[0]) >> np.uint64(11)) * 2.0**-53
        assert not _ptrs(np.array([mean]), u)[1][0]


def test_decisions_at_a_boundary_are_left_to_numpy():
    # numpy's C may differ by a few ulps (libm's log and exp, FMA contraction),
    # so a draw whose decision is that close to its boundary is not certified.
    u = (_philox_block(_philox_keys([1], [(0, 0)])[0]) >> np.uint64(11)) * 2.0**-53
    U, V = float(u[0, 0]) - 0.5, float(u[1, 0])
    us = 0.5 - abs(U)
    assert us >= 0.07 and V < 0.9
    squeeze = ((2 + 3.6224 / (0.9277 - V) - 0.931) / 2.53) ** 2  # its vr is V
    floor = 1e6
    for _ in range(4):  # move the mean until the floor's argument is 1e-9 above an integer
        b = 0.931 + 2.53 * math.sqrt(floor)
        x = (2 * (-0.059 + 0.02483 * b) / us + b) * U + floor + 0.43
        floor += round(x) - x + 1e-9
    product = -math.log(float(u[0, 0]) * float(u[1, 0]))  # exp(-mean) is a running product
    for method, mean in ((_ptrs, squeeze), (_ptrs, floor), (_multiplication, product)):
        assert not method(np.array([mean]), u)[1][0]


_MEANS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 10.0, exclude_min=True, exclude_max=True),
    st.floats(10.0, 1e3),
    st.floats(1e3, 1e15),
    st.just(_POISSON_MAX),
)


@st.composite
def _batches(draw):
    """(seeds, keys, means) with one mean per seed and key, from every branch of the draw."""
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
    word = st.integers(0, 2**32 - 1)
    keys = draw(st.lists(st.tuples(word, word), min_size=1, max_size=6))
    return seeds, keys, [[draw(_MEANS) for _ in keys] for _ in seeds]


@settings(max_examples=60, deadline=None)
@given(batch=_batches())
@example(batch=(list(_PTRS_STEPS.values()), [(3, 1)], [[2.5e5]] * len(_PTRS_STEPS)))
def test_poisson_equals_stream_on_every_branch(batch):
    seeds, keys, means = batch
    counts = _poisson(means, seeds, keys)
    for b, seed in enumerate(seeds):
        assert counts[b].tolist() == [
            int(stream(seed, *key).poisson(mean)) for key, mean in zip(keys, means[b])
        ]
        assert counts[b].tolist() == _poisson(means[b], [seed], keys)[0].tolist()


@pytest.mark.parametrize("key", [(2**32, 0), (0, 2**32), (-1, 0), (3, -1), (2**64, 1)])
def test_stream_key_words_outside_32_bits_are_rejected(key):
    with pytest.raises(OutOfRange):
        _philox_keys([1], [(0, 0), key])


def test_poisson_means_above_numpys_limit_are_rejected():
    assert _POISSON_MAX == 9.223372006484771e18
    keys = [(0, 0), (0, 1)]
    assert _poisson([1.0, _POISSON_MAX], [1], keys)[0, 0] == stream(1, 0, 0).poisson(1.0)
    with pytest.raises(OutOfRange, match="Poisson mean"):
        _poisson([1.0, np.nextafter(_POISSON_MAX, np.inf)], [1], keys)
    with pytest.raises(ValueError):  # numpy's own limit is the same number
        stream(1, 0, 1).poisson(np.nextafter(_POISSON_MAX, np.inf))
