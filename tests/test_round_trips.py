"""Every writer/reader pair: what is written to a file reads back equal."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bellmix.counting import read_counts_csv, write_counts_csv
from bellmix.linalg import read_state_json, write_state_json
from bellmix.metrics import report_for
from bellmix.optics import (
    AnalyzerPair,
    ProjectorSet,
    WaveplateSetting,
    read_projector_set_json,
    standard_projector_set,
    write_projector_set_json,
)
from bellmix.tomography import (
    ReconstructionResult,
    read_result_json,
    result_to_json_dict,
    write_result_json,
)
from helpers import assert_same_table, random_density_matrix, random_local_unitary

round_trip = settings(max_examples=25, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])

_COUNT = st.integers(0, 2**63 - 1)
_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_RNG = st.integers(0, 2**32 - 1).map(np.random.default_rng)


# Count tables of 1 to 9 settings.
_TABLES = arrays(np.int64, st.tuples(st.integers(1, 9), st.just(4)), elements=_COUNT)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trips")


@round_trip
@given(counts=_TABLES)
def test_counts_csv_round_trip(scratch, counts):
    write_counts_csv(scratch / "counts.csv", counts)
    assert_same_table(read_counts_csv(scratch / "counts.csv"), counts)


@round_trip
@given(rng=_RNG)
def test_state_json_round_trip(scratch, rng):
    rho = random_density_matrix(rng)
    write_state_json(scratch / "state.json", rho)
    assert read_state_json(scratch / "state.json").matrix.tobytes() == rho.matrix.tobytes()


@round_trip
@given(rng=_RNG, angles=st.lists(_FLOAT, min_size=36, max_size=36),
       names=st.lists(st.text(max_size=3), min_size=18, max_size=18))
def test_projector_set_json_round_trip(scratch, rng, angles, names):
    """Each standard setting turned by its own local unitary, with arbitrary labels."""
    groups = []
    for group in standard_projector_set().projectors:
        u = random_local_unitary(rng)
        groups.append(u @ group @ u.conj().T)
    settings_ = tuple(
        AnalyzerPair(names[2 * i], names[2 * i + 1], WaveplateSetting(*angles[4 * i:4 * i + 2]),
                     WaveplateSetting(*angles[4 * i + 2:4 * i + 4]))
        for i in range(9)
    )
    pset = ProjectorSet(settings=settings_, projectors=np.array(groups))
    write_projector_set_json(scratch / "projectors.json", pset)
    back = read_projector_set_json(scratch / "projectors.json")
    assert back.settings == pset.settings
    assert back.projectors.tobytes() == pset.projectors.tobytes()


@round_trip
@given(rng=_RNG, log_likelihood=_FLOAT, iterations=st.integers(0, 10**6), converged=st.booleans(),
       errors=st.none() | st.tuples(*[st.floats(0.0, allow_infinity=False)] * 4),
       with_target=st.booleans(), floored=st.integers(0, 36))
def test_result_json_round_trip(scratch, rng, log_likelihood, iterations, converged, errors,
                                with_target, floored):
    rho_hat = random_density_matrix(rng)
    target = random_density_matrix(rng) if with_target else None
    result = ReconstructionResult(
        rho_hat=rho_hat,
        log_likelihood=log_likelihood,
        iterations=iterations,
        converged=converged,
        metrics=report_for(rho_hat, target=target, target_description="target"),
        metric_errors=(dict(zip(("purity", "tangle", "visibility", "fidelity"), errors))
                       if errors is not None else None),
        target=target,
        floored_outcomes=floored,
    )
    write_result_json(scratch / "recon.json", result)
    back = read_result_json(scratch / "recon.json")
    assert result_to_json_dict(back) == result_to_json_dict(result)
    assert back.rho_hat.matrix.tobytes() == rho_hat.matrix.tobytes()
    assert back.metrics == result.metrics
