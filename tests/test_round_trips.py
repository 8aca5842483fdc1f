"""Every writer/reader pair: what is written to a file, or pickled, reads back equal."""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bellmix.counting import AcquisitionConfig, read_counts_csv, simulate_counts, write_counts_csv
from bellmix.linalg import read_state_json, write_state_json
from bellmix.metrics import report_for
from bellmix.optics import (
    ProjectorSet,
    read_projector_set_json,
    standard_projector_set,
    write_projector_set_json,
)
from bellmix.states import bell_state
from bellmix.tomography import (
    ReconstructionResult,
    mle_reconstruct,
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
@given(rng=_RNG)
def test_projector_set_json_round_trip(scratch, rng):
    """Each standard setting turned by its own local unitary."""
    groups = []
    for group in standard_projector_set().projectors:
        u = random_local_unitary(rng)
        groups.append(u @ group @ u.conj().T)
    pset = ProjectorSet(np.array(groups))
    write_projector_set_json(scratch / "projectors.json", pset)
    back = read_projector_set_json(scratch / "projectors.json")
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


def test_signed_zeros_read_back_bit_for_bit(scratch):
    """The standard set, a Bell state and a fit to it keep the sign of each -0.0 entry."""
    pset, rho = standard_projector_set(), bell_state("phi-")
    assert np.signbit(pset.projectors.real[pset.projectors.real == 0.0]).any()
    assert np.signbit(rho.matrix.imag[rho.matrix.imag == 0.0]).any()
    write_projector_set_json(scratch / "standard.json", pset)
    assert read_projector_set_json(scratch / "standard.json").projectors.tobytes() == \
        pset.projectors.tobytes()
    write_state_json(scratch / "phi-.json", rho)
    assert read_state_json(scratch / "phi-.json").matrix.tobytes() == rho.matrix.tobytes()
    result = mle_reconstruct(simulate_counts(rho, pset, AcquisitionConfig(1e3, seed=3)), pset,
                             target=rho)
    write_result_json(scratch / "recon.json", result)
    back = read_result_json(scratch / "recon.json")
    assert back.rho_hat.matrix.tobytes() == result.rho_hat.matrix.tobytes()
    assert back.target.matrix.tobytes() == rho.matrix.tobytes()


@pytest.mark.parametrize("value, name", [(bell_state("phi-"), "matrix"),
                                         (standard_projector_set(), "projectors")],
                         ids=["DensityMatrix", "ProjectorSet"])
def test_unpickled_matrices_are_read_only_and_not_checked_again(monkeypatch, value, name):
    monkeypatch.setattr(type(value), "__post_init__", lambda self: pytest.fail("checked again"))
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    assert getattr(back, name).tobytes() == getattr(value, name).tobytes()
    assert not getattr(back, name).flags.writeable
